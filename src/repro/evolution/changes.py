"""Schema change operations (paper Section 3).

Each change is a small object that owns everything the change means:

* :meth:`SchemaChange.apply_to_schema` — produce the evolved E/R schema
  (the *logical* change, which the paper argues is small and localized);
* :meth:`SchemaChange.describe` — a human/JSON-friendly record kept in the
  version history;
* :meth:`SchemaChange.applies_to` / :meth:`SchemaChange.transform_values` —
  what it does to stored values, whole instances and captured updates alike;
* :meth:`SchemaChange.rewrite_reference` / :meth:`SchemaChange.rewrite_equality`
  — what it does to a query naming the changed attribute.

The concrete changes implement exactly the scenarios the paper walks through:

* :class:`MakeAttributeMultiValued` — a single city becomes multiple cities;
* :class:`MakeRelationshipManyToMany` — an advisor relationship stops being
  many-to-one;
* :class:`AddAttribute` / :class:`DropAttribute` / :class:`RenameAttribute`;
* :class:`AddEntitySet` / :class:`AddSubclass`;
* :class:`AddRelationship` / :class:`DropRelationship`.

Data migration itself is :mod:`repro.evolution.migration` (offline) and
:mod:`repro.evolution.online`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import (
    Attribute,
    ERSchema,
    EntitySet,
    MultiValuedAttribute,
    RelationshipSet,
)
from ..core.relationships import Cardinality
from ..erql.ast_nodes import Expr, FuncCall, Literal, Name
from ..erql.logical import BoundRef
from ..errors import EvolutionError


class SchemaChange:
    """Base class for schema evolution operations.

    The defaults re-express no stored value and no query reference.  Drops
    need no values rule: every migration fits each instance to the target
    schema, which discards exactly what its entity set no longer has.
    """

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        """Return a new, evolved schema (the input is never modified)."""

        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {"change": type(self).__name__}

    def changed_attribute(self) -> Optional[Tuple[str, str]]:
        """``(entity, attribute)`` whose values or query references change."""

        return None

    def applies_to(self, schema: ERSchema, entity: str) -> bool:
        """True if ``entity`` (of the old ``schema``) owns or inherits the
        changed attribute."""

        changed = self.changed_attribute()
        if changed is None:
            return False
        owner = changed[0]
        return entity == owner or any(a.name == owner for a in schema.ancestors_of(entity))

    def transform_values(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """``values`` — a whole instance's or a partial update's, of an entity
        set the change applies to — under the evolved schema.

        Returns ``values`` itself when nothing changes.
        """

        return values

    def rewrite_reference(self, name: Name, ref: BoundRef, item: bool) -> Expr:
        """Replacement for one query reference to the changed attribute.

        ``ref`` is what ``name`` bound to under the old schema; ``item`` is
        set when ``name`` is a whole select-list item.  Raises
        :class:`~repro.errors.EvolutionError` with the reason when the
        reference has no mechanical rewrite.
        """

        return name

    def rewrite_equality(self, name: Name, ref: BoundRef, literal: Literal) -> Optional[Expr]:
        """Replacement for a whole ``name = literal`` filter in WHERE (not
        under NOT), or None when only ``name`` itself needs rewriting."""

        return None


@dataclass
class AddAttribute(SchemaChange):
    """Add a (simple or multi-valued) attribute to an entity set."""

    entity: str
    attribute: Attribute

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        evolved.entity(self.entity).add_attribute(self.attribute)
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {
            "change": "add_attribute",
            "entity": self.entity,
            "attribute": self.attribute.describe(),
        }


@dataclass
class DropAttribute(SchemaChange):
    """Drop a non-key attribute from an entity set."""

    entity: str
    attribute: str

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        evolved.entity(self.entity).remove_attribute(self.attribute)
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {"change": "drop_attribute", "entity": self.entity, "attribute": self.attribute}

    def changed_attribute(self) -> Optional[Tuple[str, str]]:
        return self.entity, self.attribute

    def rewrite_reference(self, name: Name, ref: BoundRef, item: bool) -> Expr:
        raise EvolutionError(
            f"attribute {self.attribute!r} of {self.entity!r} is dropped; its data is gone"
        )


@dataclass
class RenameAttribute(SchemaChange):
    """Rename an attribute (queries referencing the old name must change)."""

    entity: str
    old_name: str
    new_name: str

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        entity = evolved.entity(self.entity)
        attribute = entity.attribute(self.old_name)
        if entity.has_attribute(self.new_name):
            raise EvolutionError(
                f"entity {self.entity!r} already has an attribute {self.new_name!r}"
            )
        import copy

        replacement = copy.deepcopy(attribute)
        replacement.name = self.new_name
        entity.replace_attribute(self.old_name, replacement)
        if self.old_name in entity.key:
            entity.key = [self.new_name if k == self.old_name else k for k in entity.key]
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {
            "change": "rename_attribute",
            "entity": self.entity,
            "old_name": self.old_name,
            "new_name": self.new_name,
        }

    def changed_attribute(self) -> Optional[Tuple[str, str]]:
        return self.entity, self.old_name

    def transform_values(self, values: Dict[str, Any]) -> Dict[str, Any]:
        if self.old_name not in values:
            return values
        renamed = dict(values)
        renamed[self.new_name] = renamed.pop(self.old_name)
        return renamed

    def rewrite_reference(self, name: Name, ref: BoundRef, item: bool) -> Expr:
        parts = list(name.parts)
        parts[len(parts) - len(ref.path) - 1] = self.new_name
        return Name(parts)


@dataclass
class MakeAttributeMultiValued(SchemaChange):
    """Turn a single-valued attribute into a multi-valued one.

    This is the paper's flagship example: "moving from a single city to
    multiple cities" is a minor E/R change, whereas the relational schema
    change (new table, extra joins in every query) is invasive.
    """

    entity: str
    attribute: str

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        entity = evolved.entity(self.entity)
        attribute = entity.attribute(self.attribute)
        if attribute.is_multivalued():
            raise EvolutionError(f"attribute {self.attribute!r} is already multi-valued")
        if attribute.is_composite():
            raise EvolutionError(
                "making a composite attribute multi-valued is not supported"
            )
        if self.attribute in evolved.effective_key(self.entity):
            raise EvolutionError("key attributes cannot become multi-valued")
        replacement = MultiValuedAttribute(
            name=attribute.name,
            type_name=attribute.type_name,
            required=attribute.required,
            description=attribute.description,
            pii=attribute.pii,
        )
        entity.replace_attribute(self.attribute, replacement)
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {
            "change": "make_attribute_multivalued",
            "entity": self.entity,
            "attribute": self.attribute,
        }

    def changed_attribute(self) -> Optional[Tuple[str, str]]:
        return self.entity, self.attribute

    def transform_values(self, values: Dict[str, Any]) -> Dict[str, Any]:
        if self.attribute not in values:
            return values
        value = values[self.attribute]
        return {**values, self.attribute: [] if value is None else [value]}

    def rewrite_reference(self, name: Name, ref: BoundRef, item: bool) -> Expr:
        if item:
            return FuncCall("unnest", [name])
        raise EvolutionError(
            f"attribute {self.attribute!r} of {self.entity!r} becomes multi-valued; "
            "only a select-list item (unnest) or a 'where attribute = literal' "
            "filter (array_contains) has a mechanical rewrite"
        )

    def rewrite_equality(self, name: Name, ref: BoundRef, literal: Literal) -> Optional[Expr]:
        return FuncCall("array_contains", [name, literal])


@dataclass
class MakeRelationshipManyToMany(SchemaChange):
    """Relax a many-to-one relationship to many-to-many.

    The paper's example: a student gaining multiple advisors.  The E/R change
    is a cardinality annotation; under the hood the physical design moves from
    a foreign-key fold to a join table, which migration handles.
    """

    relationship: str

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        relationship = evolved.relationship(self.relationship)
        if relationship.kind() == "many_to_many":
            raise EvolutionError(f"relationship {self.relationship!r} is already many-to-many")
        for participant in relationship.participants:
            participant.cardinality = Cardinality.MANY
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {"change": "make_relationship_many_to_many", "relationship": self.relationship}


@dataclass
class AddEntitySet(SchemaChange):
    """Add a brand-new entity set."""

    entity: EntitySet

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        evolved.add_entity(self.entity)
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {"change": "add_entity_set", "entity": self.entity.describe()}


@dataclass
class AddSubclass(SchemaChange):
    """Add a subclass to an existing entity set."""

    parent: str
    name: str
    attributes: List[Attribute] = field(default_factory=list)

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        if not evolved.has_entity(self.parent):
            raise EvolutionError(f"unknown parent entity set {self.parent!r}")
        evolved.add_entity(
            EntitySet(name=self.name, attributes=list(self.attributes), parent=self.parent)
        )
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {
            "change": "add_subclass",
            "parent": self.parent,
            "name": self.name,
            "attributes": [a.describe() for a in self.attributes],
        }


@dataclass
class AddRelationship(SchemaChange):
    """Add a new relationship set."""

    relationship: RelationshipSet

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        evolved.add_relationship(self.relationship)
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {"change": "add_relationship", "relationship": self.relationship.describe()}


@dataclass
class DropRelationship(SchemaChange):
    """Drop a relationship set (its occurrences are discarded on migration)."""

    relationship: str

    def apply_to_schema(self, schema: ERSchema) -> ERSchema:
        evolved = schema.clone()
        evolved.drop_relationship(self.relationship)
        return evolved

    def describe(self) -> Dict[str, Any]:
        return {"change": "drop_relationship", "relationship": self.relationship}
